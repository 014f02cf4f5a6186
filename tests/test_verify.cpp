// Tests of the static verification layer (src/verify):
//   * the seeded-defect schedules are all detected, each with the
//     expected violation kind and a non-empty counterexample trace;
//   * every real-protocol schedule the emitters produce passes;
//   * cross-validation — the model is tied back to reality by running
//     the REAL threaded collectives under run_on() and comparing the
//     context's message/byte counters against the schedule's send
//     totals. A drift between the emitters and the production wire
//     behaviour shows up here as a count or volume mismatch.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "core/apmos.hpp"
#include "core/parallel_streaming.hpp"
#include "core/tsqr.hpp"
#include "pmpi/comm.hpp"
#include "test_utils.hpp"
#include "verify/checker.hpp"
#include "verify/fault_schedules.hpp"
#include "verify/schedules.hpp"
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

// ------------------------------------------------------ group schedules

TEST(VerifyGroups, EmbedTranslatesPeersAndScopesTags) {
  const Schedule local = script_bcast(2, 0, 48).schedule;
  Schedule world = make_schedule("embed test", 4);
  const GroupSpec g{2, {3, 1}};  // group rank 0 -> world 3, 1 -> world 1
  embed_group_schedule(world, local, g);
  // World ranks 0 and 2 stay silent.
  EXPECT_TRUE(world.ranks[0].events().empty());
  EXPECT_TRUE(world.ranks[2].events().empty());
  ASSERT_EQ(world.ranks[3].events().size(), 1u);
  ASSERT_EQ(world.ranks[1].events().size(), 1u);
  const CommEvent& send = world.ranks[3].events()[0];
  const CommEvent& recv = world.ranks[1].events()[0];
  EXPECT_EQ(send.kind, CommEvent::Kind::Send);
  EXPECT_EQ(send.peer, 1);  // group rank 1, translated
  EXPECT_EQ(send.tag, pmpi::tags::group_scope(2, pmpi::tags::kBcast));
  EXPECT_EQ(recv.kind, CommEvent::Kind::Recv);
  EXPECT_EQ(recv.peer, 3);
  EXPECT_EQ(recv.tag, send.tag);
  EXPECT_TRUE(check_schedule(world).ok());
}

TEST(VerifyGroups, PartitionSchedulesPass) {
  // Interleaved membership plus a bystander world rank (8 is in no
  // group): the checker must prove the whole choreography.
  const std::vector<GroupSpec> groups{
      {1, {0, 2, 4, 6}},
      {2, {1, 3, 5, 7}},
  };
  const std::vector<GroupProtocol> protos{GroupProtocol::Tsqr,
                                          GroupProtocol::Allreduce};
  const Schedule s = script_partition(9, groups, protos, 512);
  const CheckReport report = check_schedule(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_TRUE(s.ranks[8].events().empty());
  // Totals decode per group and cover every send in the schedule.
  const std::map<int, GroupTotals> totals = group_send_totals(s);
  ASSERT_EQ(totals.size(), 2u);
  std::uint64_t all_messages = 0;
  std::uint64_t all_bytes = 0;
  for (const CommScript& script : s.ranks) {
    for (const CommEvent& e : script.events()) {
      if (e.kind == CommEvent::Kind::Send) {
        ++all_messages;
        all_bytes += e.bytes;
      }
    }
  }
  std::uint64_t msg_sum = 0;
  std::uint64_t byte_sum = 0;
  for (const auto& [id, t] : totals) {
    EXPECT_GT(t.messages, 0u) << "group " << id;
    msg_sum += t.messages;
    byte_sum += t.bytes;
  }
  EXPECT_EQ(msg_sum, all_messages);
  EXPECT_EQ(byte_sum, all_bytes);
}

TEST(VerifyGroups, OverlappingPartitionRejected) {
  const std::vector<GroupSpec> groups{{1, {0, 1}}, {2, {1, 2}}};
  const std::vector<GroupProtocol> protos{GroupProtocol::Bcast,
                                          GroupProtocol::Bcast};
  EXPECT_THROW(script_partition(3, groups, protos, 8), Error);
}

// ------------------------------------------------------ cross-validation

struct Totals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Totals schedule_totals(const Schedule& s) {
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

/// Run the real collective and require the schedule to (a) pass the
/// checker and (b) predict the context's message/byte counters exactly.
void expect_matches_reality(
    const Schedule& s, int p,
    const std::function<void(pmpi::Communicator&)>& body) {
  const CheckReport report = check_schedule(s);
  EXPECT_TRUE(report.ok()) << report.to_string();
  auto ctx = std::make_shared<pmpi::Context>(p);
  pmpi::run_on(ctx, body);
  const Totals t = schedule_totals(s);
  EXPECT_EQ(ctx->total_messages(), t.messages) << s.name;
  EXPECT_EQ(ctx->total_bytes(), t.bytes) << s.name;
}

/// A deterministic local panel for the TSQR runs.
Matrix tsqr_panel(Index rows, Index k, int rank) {
  Matrix a(rows, k);
  for (Index i = 0; i < a.size(); ++i) {
    a.data()[i] = 0.1 * static_cast<double>((i * 7 + rank * 13) % 23) + 1.0;
  }
  return a;
}

const int kRankCounts[] = {1, 2, 3, 5, 8, 16};

TEST(VerifyCrossValidation, Bcast) {
  for (const int p : kRankCounts) {
    for (const int root : {0, p - 1}) {
      const Schedule s = script_bcast(p, root, 7 * sizeof(double)).schedule;
      expect_matches_reality(s, p, [root](pmpi::Communicator& comm) {
        std::vector<double> v(7, comm.rank() == root ? 1.5 : 0.0);
        comm.bcast(v, root);
      });
    }
  }
}

TEST(VerifyCrossValidation, Gatherv) {
  for (const int p : kRankCounts) {
    std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      per_rank[static_cast<std::size_t>(r)] =
          sizeof(double) * static_cast<std::uint64_t>(3 + r);
    }
    const Schedule s = script_gather(p, 0, per_rank).schedule;
    expect_matches_reality(s, p, [](pmpi::Communicator& comm) {
      std::vector<double> local(static_cast<std::size_t>(3 + comm.rank()),
                                2.0);
      comm.gatherv<double>(local, 0);
    });
  }
}

TEST(VerifyCrossValidation, Allgather) {
  for (const int p : kRankCounts) {
    const Schedule s = script_allgather(p, sizeof(double)).schedule;
    expect_matches_reality(s, p, [](pmpi::Communicator& comm) {
      comm.allgather_double(static_cast<double>(comm.rank()));
    });
  }
}

TEST(VerifyCrossValidation, ReduceAndAllreduce) {
  for (const int p : kRankCounts) {
    // Small and large payloads share one topology; both are pinned.
    for (const std::size_t n : {std::size_t{16}, std::size_t{4096}}) {
      const Schedule sr = script_reduce(p, 0, n * sizeof(double)).schedule;
      expect_matches_reality(sr, p, [n](pmpi::Communicator& comm) {
        std::vector<double> v(n, static_cast<double>(comm.rank()));
        comm.reduce(v, pmpi::Op::Sum, 0);
      });
      const Schedule sa = script_allreduce(p, n * sizeof(double)).schedule;
      expect_matches_reality(sa, p, [n](pmpi::Communicator& comm) {
        std::vector<double> v(n, 1.0);
        comm.allreduce(v, pmpi::Op::Sum);
      });
    }
  }
}

TEST(VerifyCrossValidation, ScatterRows) {
  for (const int p : kRankCounts) {
    const Index cols = 3;
    std::vector<Index> rows_per_rank(static_cast<std::size_t>(p));
    std::vector<std::uint64_t> block_bytes(static_cast<std::size_t>(p));
    Index total = 0;
    for (int r = 0; r < p; ++r) {
      rows_per_rank[static_cast<std::size_t>(r)] = r + 1;
      block_bytes[static_cast<std::size_t>(r)] =
          2 * sizeof(std::int64_t) +
          sizeof(double) * static_cast<std::uint64_t>((r + 1) * cols);
      total += r + 1;
    }
    const Schedule s = script_scatter_rows(p, 0, block_bytes);
    expect_matches_reality(
        s, p, [&rows_per_rank, total, cols](pmpi::Communicator& comm) {
          Matrix full;
          if (comm.rank() == 0) {
            full = Matrix(total, cols);
            for (Index i = 0; i < full.size(); ++i) full.data()[i] = 0.25;
          }
          comm.scatter_rows(full, rows_per_rank, 0);
        });
  }
}

/// tsqr of this rank's panel, then the collective q_times with a
/// `y_cols`-column Y read at root: the protocol script_tsqr_direct models.
void tsqr_then_q_times(pmpi::Communicator& comm, Index rows, Index k,
                       Index y_cols) {
  const TsqrResult qr = tsqr(comm, tsqr_panel(rows, k, comm.rank()));
  const Matrix y = comm.is_root() ? testing::random_matrix(qr.r.rows(), y_cols, 5)
                                  : Matrix{};
  qr.q_times(comm, y);
}

TEST(VerifyCrossValidation, TsqrDirect) {
  constexpr Index k = 4;
  for (const int p : kRankCounts) {
    // Uniform tall panels, and a ragged layout where some ranks hold
    // fewer rows than k (their R factors and Q·Y blocks shrink).
    std::vector<std::int64_t> uniform(static_cast<std::size_t>(p), 8);
    std::vector<std::int64_t> ragged(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ragged[static_cast<std::size_t>(r)] = 2 + r % 5;
    }
    for (const auto& rows : {uniform, ragged}) {
      for (const Index c : {Index{1}, k}) {
        const Schedule s = script_tsqr_direct(rows, k, c).schedule;
        expect_matches_reality(s, p, [&rows, c](pmpi::Communicator& comm) {
          tsqr_then_q_times(comm, rows[static_cast<std::size_t>(comm.rank())],
                            k, c);
        });
      }
    }
  }
}

// ----------------------- metrics-registry vs schedule cross-validation

// The accessors consumed above (total_messages / total_bytes) are thin
// views over the per-context obs::Registry. Pin the registry series
// themselves — dotted names, per-sender split, payload histogram —
// against the schedule prediction for an allreduce (every rank sends in
// the reduce leg, the root fans the total out), so a metric rename or a
// half-done migration cannot silently detach the Context accessors from
// the registry while both tests keep passing.
TEST(VerifyCrossValidation, MetricsRegistryTotals) {
  constexpr int p = 8;
  constexpr std::size_t n = 48;  // doubles
  const Schedule s = script_allreduce(p, n * sizeof(double)).schedule;
  ASSERT_TRUE(check_schedule(s).ok());
  auto ctx = std::make_shared<pmpi::Context>(p);
  pmpi::run_on(ctx, [](pmpi::Communicator& comm) {
    std::vector<double> v(n, static_cast<double>(comm.rank()));
    comm.allreduce(v, pmpi::Op::Sum);
  });
  obs::Registry& reg = ctx->metrics();
  const Totals t = schedule_totals(s);
  EXPECT_EQ(reg.counter("comm.messages").value(), t.messages) << s.name;
  EXPECT_EQ(reg.counter("comm.bytes").value(), t.bytes) << s.name;
  // Per-sender series against each rank's script, and their sum against
  // the total (no bytes may hide outside the rank split).
  std::uint64_t rank_sum = 0;
  for (int r = 0; r < p; ++r) {
    std::uint64_t sent = 0;
    for (const CommEvent& e : s.ranks[static_cast<std::size_t>(r)].events()) {
      if (e.kind == CommEvent::Kind::Send) sent += e.bytes;
    }
    const std::uint64_t got =
        reg.counter("comm.rank" + std::to_string(r) + ".bytes").value();
    EXPECT_EQ(got, sent) << s.name << " rank " << r;
    rank_sum += got;
  }
  EXPECT_EQ(rank_sum, t.bytes) << s.name;
  // Every post records its payload in the size histogram.
  const obs::Histogram& h = reg.histogram("comm.payload_bytes");
  EXPECT_EQ(h.count(), t.messages) << s.name;
  EXPECT_EQ(h.sum(), t.bytes) << s.name;
  // And the legacy accessors must read the same registry, not a copy.
  EXPECT_EQ(ctx->total_messages(), t.messages);
  EXPECT_EQ(ctx->total_bytes(), t.bytes);
}

// Two concurrent jobs on disjoint subgroups of one context: the model
// is the world schedule with each group's local protocol embedded into
// its scoped tag band. Pins (a) the per-group registry series
// "comm.group<id>.messages"/"comm.group<id>.bytes" to the model's
// per-band send totals and (b) the world totals to their sum —
// subgroup() is purely local, so group traffic is ALL the traffic.
TEST(VerifyCrossValidation, GroupRegistryTotals) {
  constexpr int p = 8;
  constexpr Index k = 4;
  constexpr std::size_t n = 64;  // allreduce payload, doubles
  const std::array<int, 4> evens{0, 2, 4, 6};
  const std::array<int, 4> odds{1, 3, 5, 7};
  // Ragged TSQR panels: group rank 0 holds fewer rows than k.
  const std::vector<std::int64_t> rows{3, 8, 5, 6};
  // Model: group 1 (evens) runs a direct TSQR, group 2 (odds) an
  // allreduce followed by a group barrier.
  Schedule s = make_schedule("two subgroup jobs", p);
  embed_group_schedule(s, script_tsqr_direct(rows, k, 2).schedule,
                       GroupSpec{1, {evens.begin(), evens.end()}});
  const GroupSpec odd_spec{2, {odds.begin(), odds.end()}};
  embed_group_schedule(s, script_allreduce(4, n * sizeof(double)).schedule,
                       odd_spec);
  embed_group_schedule(s, script_group_barrier(4), odd_spec);
  const CheckReport report = check_schedule(s);
  ASSERT_TRUE(report.ok()) << report.to_string();

  // Reality: pre-mint the groups in a fixed order so ids are stable, then
  // run both jobs concurrently on one context.
  auto ctx = std::make_shared<pmpi::Context>(p);
  ctx->group_for({evens.begin(), evens.end()});
  ctx->group_for({odds.begin(), odds.end()});
  pmpi::run_on(ctx, [&](pmpi::Communicator& comm) {
    if (comm.rank() % 2 == 0) {
      auto sub = comm.subgroup(evens);
      ASSERT_TRUE(sub.has_value());
      tsqr_then_q_times(*sub, rows[static_cast<std::size_t>(sub->rank())], k,
                        2);
    } else {
      auto sub = comm.subgroup(odds);
      ASSERT_TRUE(sub.has_value());
      std::vector<double> v(n, 1.0);
      sub->allreduce(v, pmpi::Op::Sum);
      sub->barrier();
    }
  });

  const std::map<int, GroupTotals> model = group_send_totals(s);
  ASSERT_EQ(model.size(), 2u);
  obs::Registry& reg = ctx->metrics();
  std::uint64_t msg_sum = 0;
  std::uint64_t byte_sum = 0;
  for (const auto& [id, t] : model) {
    const std::string prefix = "comm.group" + std::to_string(id);
    EXPECT_EQ(reg.counter(prefix + ".messages").value(), t.messages)
        << s.name << " group " << id;
    EXPECT_EQ(reg.counter(prefix + ".bytes").value(), t.bytes)
        << s.name << " group " << id;
    msg_sum += t.messages;
    byte_sum += t.bytes;
  }
  EXPECT_EQ(ctx->total_messages(), msg_sum) << s.name;
  EXPECT_EQ(ctx->total_bytes(), byte_sum) << s.name;
}

TEST(VerifyCrossValidation, GroupBarrierTotals) {
  // The flat gather+release barrier: 2(p-1) zero-byte messages.
  for (const int p : kRankCounts) {
    const Schedule local = script_group_barrier(p);
    Schedule world = make_schedule("group barrier", p);
    std::vector<int> members(static_cast<std::size_t>(p));
    std::iota(members.begin(), members.end(), 0);
    embed_group_schedule(world, local, GroupSpec{1, members});
    const CheckReport report = check_schedule(world);
    ASSERT_TRUE(report.ok()) << report.to_string();

    auto ctx = std::make_shared<pmpi::Context>(p);
    ctx->group_for(members);
    pmpi::run_on(ctx, [&members](pmpi::Communicator& comm) {
      auto sub = comm.subgroup(members);
      ASSERT_TRUE(sub.has_value());
      sub->barrier();
    });
    const std::map<int, GroupTotals> model = group_send_totals(world);
    const std::uint64_t expect_msgs =
        p > 1 ? 2u * static_cast<std::uint64_t>(p - 1) : 0u;
    if (p > 1) {
      ASSERT_EQ(model.size(), 1u);
      EXPECT_EQ(model.at(1).messages, expect_msgs);
      EXPECT_EQ(model.at(1).bytes, 0u);
    } else {
      EXPECT_TRUE(model.empty());
    }
    EXPECT_EQ(ctx->total_messages(), expect_msgs) << "p=" << p;
    EXPECT_EQ(ctx->total_bytes(), 0u) << "p=" << p;
  }
}

TEST(VerifyCrossValidation, Apmos) {
  for (const int p : kRankCounts) {
    // a_local: 8 x 5 per rank, r1 = 3, r2 = 2, under both fault
    // policies (the fault-tolerant one adds the FaultReport bcast).
    const std::vector<std::int64_t> rows(static_cast<std::size_t>(p), 8);
    for (const bool fault_tolerant : {false, true}) {
      const Schedule s = script_apmos(rows, 5, 3, 2, fault_tolerant).schedule;
      expect_matches_reality(s, p, [fault_tolerant](pmpi::Communicator& comm) {
        Matrix a(8, 5);
        for (Index i = 0; i < a.size(); ++i) {
          a.data()[i] =
              1.0 + 0.01 * static_cast<double>((i * 11 + comm.rank()) % 17);
        }
        ApmosOptions opts;
        opts.r1 = 3;
        opts.r2 = 2;
        opts.fault_tolerant = fault_tolerant;
        apmos_svd(comm, a, opts);
      });
    }
  }
}

// The streaming update loop at the burgers_stream shape (P=4, K=10,
// B=10, 4096 rows per rank): the registry's messages and bytes over the
// updates must equal the emitter's kill-free prediction under both
// fault policies. A healthy initialize-only probe supplies the setup
// baseline the update section is measured against.
void cross_validate_streaming_updates(bool fault_tolerant,
                                      std::uint64_t messages_per_update) {
  constexpr int p = 4;
  constexpr Index rows = 4096;
  constexpr Index K = 10;
  constexpr Index B = 10;
  constexpr int updates = 3;
  StreamingShape shape;
  shape.rows_by_rank.assign(p, rows);
  shape.num_modes = K;
  shape.batch_cols = B;
  shape.rounds = updates;
  shape.fault_tolerant = fault_tolerant;
  const FaultSchedule model = script_streaming_updates(shape);
  ASSERT_TRUE(check_schedule(model.schedule).ok());
  EXPECT_EQ(model.messages, messages_per_update * updates);

  const auto job = [&](pmpi::Communicator& comm, int rounds) {
    const auto r = static_cast<std::uint64_t>(comm.rank());
    StreamingOptions opts;
    opts.num_modes = K;
    opts.fault_tolerant = fault_tolerant;
    ParallelStreamingSVD svd(comm, opts);
    svd.initialize(testing::random_matrix(rows, K, 300 + r));
    for (int t = 0; t < rounds; ++t) {
      svd.incorporate_data(testing::random_matrix(
          rows, B, 400 + 10 * static_cast<std::uint64_t>(t) + r));
    }
  };
  auto probe = std::make_shared<pmpi::Context>(p);
  pmpi::run_on(probe, [&](pmpi::Communicator& comm) { job(comm, 0); });
  auto ctx = std::make_shared<pmpi::Context>(p);
  pmpi::run_on(ctx, [&](pmpi::Communicator& comm) { job(comm, updates); });
  EXPECT_EQ(ctx->total_messages() - probe->total_messages(), model.messages)
      << model.schedule.name;
  EXPECT_EQ(ctx->total_bytes() - probe->total_bytes(), model.bytes)
      << model.schedule.name;
}

TEST(VerifyCrossValidation, StreamingUpdatesDefaultPolicy) {
  // TSQR R gather, Q·U block scatter, sigma bcast, mode gather: four
  // legs of P-1 = 3 messages.
  cross_validate_streaming_updates(/*fault_tolerant=*/false, 12);
}

TEST(VerifyCrossValidation, StreamingUpdatesFaultTolerantPolicy) {
  // Plus the energy-ledger gather and the FaultReport bcast.
  cross_validate_streaming_updates(/*fault_tolerant=*/true, 18);
}

}  // namespace
}  // namespace parsvd::verify
