#include "verify/schedules.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "pmpi/tags.hpp"
#include "pmpi/topology.hpp"
#include "support/error.hpp"

namespace parsvd::verify {

namespace {

namespace tags = pmpi::tags;
namespace topo = pmpi::topology;

/// Mirror of Communicator::bcast (binomial tree) appended onto an
/// existing schedule, so the composite protocols (allreduce, allgather,
/// TSQR final R) reuse it exactly as the production code reuses bcast().
void emit_bcast(Schedule& s, int root, std::uint64_t bytes,
                const std::string& note) {
  const int p = s.size();
  if (p == 1) return;
  for (int r = 0; r < p; ++r) {
    CommScript& script = s.ranks[static_cast<std::size_t>(r)];
    const int vrank = (r - root + p) % p;
    if (vrank != 0) {
      const int parent = (topo::binomial_parent(vrank) + root) % p;
      script.recv(parent, tags::kBcast, bytes, note);
    }
    for (const int child_v : topo::binomial_children(vrank, p)) {
      script.send((child_v + root) % p, tags::kBcast, bytes, note);
    }
  }
}

/// Mirror of a flat root loop on `tag`: every non-root rank posts its
/// contribution, the root receives them in ascending rank order — the
/// shape of Communicator::gather_bytes_impl and Communicator::reduce.
void emit_root_loop(Schedule& s, int root, int tag,
                    std::span<const std::uint64_t> bytes_per_rank,
                    const std::string& note) {
  const int p = s.size();
  PARSVD_REQUIRE(static_cast<int>(bytes_per_rank.size()) == p,
                 "emit_root_loop: need one byte count per rank");
  if (p == 1) return;
  for (int r = 0; r < p; ++r) {
    if (r == root) continue;
    s.ranks[static_cast<std::size_t>(r)].send(
        root, tag, bytes_per_rank[static_cast<std::size_t>(r)], note);
  }
  for (int src = 0; src < p; ++src) {
    if (src == root) continue;
    s.ranks[static_cast<std::size_t>(root)].recv(
        src, tag, bytes_per_rank[static_cast<std::size_t>(src)], note);
  }
}

void emit_reduce(Schedule& s, int root, std::uint64_t bytes,
                 const std::string& note) {
  const std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(s.size()),
                                            bytes);
  emit_root_loop(s, root, tags::kReduce, per_rank, note);
}

}  // namespace

Schedule script_bcast(int p, int root, std::uint64_t bytes) {
  Schedule s = make_schedule("bcast(p=" + std::to_string(p) +
                                 ", root=" + std::to_string(root) + ", " +
                                 std::to_string(bytes) + " B)",
                             p);
  emit_bcast(s, root, bytes, "bcast");
  return s;
}

Schedule script_gather(int p, int root,
                       std::span<const std::uint64_t> bytes_per_rank) {
  Schedule s = make_schedule("gather(p=" + std::to_string(p) +
                                 ", root=" + std::to_string(root) + ")",
                             p);
  emit_root_loop(s, root, tags::kGather, bytes_per_rank, "gather");
  return s;
}

Schedule script_allgather(int p, std::uint64_t per_rank_bytes) {
  Schedule s = make_schedule("allgather(p=" + std::to_string(p) + ", " +
                                 std::to_string(per_rank_bytes) + " B/rank)",
                             p);
  const std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(p),
                                            per_rank_bytes);
  emit_root_loop(s, 0, tags::kGather, per_rank, "allgather gather leg");
  emit_bcast(s, 0, per_rank_bytes * static_cast<std::uint64_t>(p),
             "allgather bcast leg");
  return s;
}

Schedule script_reduce(int p, int root, std::uint64_t bytes) {
  Schedule s = make_schedule("reduce(p=" + std::to_string(p) +
                                 ", root=" + std::to_string(root) + ", " +
                                 std::to_string(bytes) + " B)",
                             p);
  emit_reduce(s, root, bytes, "reduce");
  return s;
}

Schedule script_allreduce(int p, std::uint64_t bytes) {
  Schedule s = make_schedule("allreduce(p=" + std::to_string(p) + ", " +
                                 std::to_string(bytes) + " B)",
                             p);
  emit_reduce(s, 0, bytes, "allreduce reduce leg");
  emit_bcast(s, 0, bytes, "allreduce bcast leg");
  return s;
}

Schedule script_scatter_rows(int p, int root,
                             std::span<const std::uint64_t> block_bytes) {
  PARSVD_REQUIRE(static_cast<int>(block_bytes.size()) == p,
                 "script_scatter_rows: need one block size per rank");
  Schedule s = make_schedule("scatter_rows(p=" + std::to_string(p) +
                                 ", root=" + std::to_string(root) + ")",
                             p);
  if (p == 1) return s;
  for (int dst = 0; dst < p; ++dst) {
    if (dst == root) continue;
    s.ranks[static_cast<std::size_t>(root)].send(
        dst, tags::kScatter, block_bytes[static_cast<std::size_t>(dst)],
        "scatter row block");
    s.ranks[static_cast<std::size_t>(dst)].recv(
        root, tags::kScatter, block_bytes[static_cast<std::size_t>(dst)],
        "scatter row block");
  }
  return s;
}

Schedule script_tsqr_direct(std::span<const std::int64_t> rows_by_rank,
                            std::int64_t k) {
  const int p = static_cast<int>(rows_by_rank.size());
  PARSVD_REQUIRE(p >= 1 && k >= 1, "tsqr_direct: need p >= 1 and k >= 1");
  Schedule s = make_schedule("tsqr_direct(p=" + std::to_string(p) +
                                 ", k=" + std::to_string(k) + ", rows=" +
                                 rows_suffix(rows_by_rank) + ")",
                             p);
  if (p == 1) return s;
  // qr_thin of an m x k block yields a min(m, k) x k R factor; the
  // stacked QR's Q has min(Σ min(mᵢ, k), k) columns.
  const auto rloc = [&](int r) {
    return std::min<std::int64_t>(rows_by_rank[static_cast<std::size_t>(r)], k);
  };
  std::vector<std::uint64_t> rbytes(static_cast<std::size_t>(p));
  std::int64_t stack = 0;
  for (int r = 0; r < p; ++r) {
    rbytes[static_cast<std::size_t>(r)] = matrix_bytes(rloc(r), k);
    stack += rloc(r);
  }
  const std::int64_t qcols = std::min(stack, k);

  emit_root_loop(s, 0, tags::kGather, rbytes, "local R factor");
  for (int dst = 1; dst < p; ++dst) {
    const std::uint64_t slice = matrix_bytes(rloc(dst), qcols);
    s.ranks[0].send(dst, tags::tsqr_down(0), slice, "Q row-slice");
    s.ranks[static_cast<std::size_t>(dst)].recv(0, tags::tsqr_down(0), slice,
                                                "Q row-slice");
  }
  emit_bcast(s, 0, matrix_bytes(qcols, k), "final R bcast");
  return s;
}

Schedule script_apmos(int p, std::uint64_t w_bytes, std::uint64_t x_bytes,
                      std::uint64_t lambda_bytes) {
  Schedule s = make_schedule("apmos(p=" + std::to_string(p) + ")", p);
  if (p > 1) {
    // Stage 3: root pre-posts every W receive before its own Stage-1/2
    // factorization and consumes them in completion order (wait_any, so
    // one order-abstracted WaitAll); non-roots ship a buffered isend.
    CommScript& root = s.ranks[0];
    std::vector<int> w_reqs;
    w_reqs.reserve(static_cast<std::size_t>(p - 1));
    for (int src = 1; src < p; ++src) {
      w_reqs.push_back(root.irecv(src, tags::apmos_w(), w_bytes,
                                  "W block pre-post"));
    }
    root.wait_all(std::move(w_reqs), "assemble W (completion order)");
    for (int r = 1; r < p; ++r) {
      s.ranks[static_cast<std::size_t>(r)].send(0, tags::apmos_w(), w_bytes,
                                                "ship W block");
    }
  }
  // Stage 5: result broadcasts.
  emit_bcast(s, 0, x_bytes, "X bcast");
  emit_bcast(s, 0, lambda_bytes, "lambda bcast");
  return s;
}

// ------------------------------------------------ communicator groups

void embed_group_schedule(Schedule& world, const Schedule& local,
                          const GroupSpec& g) {
  PARSVD_REQUIRE(g.id >= 1 && g.id <= tags::kMaxGroups,
                 "embed_group_schedule: group id out of the minted range");
  PARSVD_REQUIRE(local.size() == static_cast<int>(g.members.size()),
                 "embed_group_schedule: schedule size != member count");
  for (int gr = 0; gr < local.size(); ++gr) {
    const int wr = g.members[static_cast<std::size_t>(gr)];
    PARSVD_REQUIRE(wr >= 0 && wr < world.size(),
                   "embed_group_schedule: member outside the world");
    CommScript& dst = world.ranks[static_cast<std::size_t>(wr)];
    // Request ids are per-script counters; remap the local ids onto the
    // ids the destination script mints (it may already hold events from
    // a previous embed or from world traffic).
    std::map<int, int> req_map;
    const std::string where = " [group" + std::to_string(g.id) + "]";
    for (const CommEvent& e : local.ranks[static_cast<std::size_t>(gr)]
                                  .events()) {
      const auto peer = [&] {
        PARSVD_REQUIRE(e.peer >= 0 && e.peer < local.size(),
                       "embed_group_schedule: peer outside the group");
        return g.members[static_cast<std::size_t>(e.peer)];
      };
      const int tag = e.kind == CommEvent::Kind::Wait ||
                              e.kind == CommEvent::Kind::WaitAll
                          ? e.tag
                          : tags::group_scope(g.id, e.tag);
      switch (e.kind) {
        case CommEvent::Kind::Send:
          dst.send(peer(), tag, e.bytes, e.note + where);
          break;
        case CommEvent::Kind::Recv:
          dst.recv(peer(), tag, e.bytes, e.note + where);
          break;
        case CommEvent::Kind::IrecvPost:
          req_map[e.req] = dst.irecv(peer(), tag, e.bytes, e.note + where);
          break;
        case CommEvent::Kind::Wait:
          dst.wait(req_map.at(e.req), e.note + where);
          break;
        case CommEvent::Kind::WaitAll: {
          std::vector<int> reqs;
          reqs.reserve(e.reqs.size());
          for (const int r : e.reqs) reqs.push_back(req_map.at(r));
          dst.wait_all(std::move(reqs), e.note + where);
          break;
        }
      }
    }
  }
}

Schedule script_group_barrier(int p) {
  Schedule s = make_schedule("group_barrier(p=" + std::to_string(p) + ")", p);
  if (p == 1) return s;
  // Flat arrive-then-release through group rank 0, exactly the message
  // barrier Communicator::barrier posts on a group communicator.
  for (int src = 1; src < p; ++src) {
    s.ranks[0].recv(src, tags::kBarrier, 0, "barrier arrive");
  }
  for (int dst = 1; dst < p; ++dst) {
    s.ranks[0].send(dst, tags::kBarrier, 0, "barrier release");
  }
  for (int r = 1; r < p; ++r) {
    s.ranks[static_cast<std::size_t>(r)].send(0, tags::kBarrier, 0,
                                              "barrier arrive");
    s.ranks[static_cast<std::size_t>(r)].recv(0, tags::kBarrier, 0,
                                              "barrier release");
  }
  return s;
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

Schedule group_protocol_schedule(GroupProtocol proto, int p,
                                 std::uint64_t bytes) {
  switch (proto) {
    case GroupProtocol::Bcast:
      return script_bcast(p, 0, bytes);
    case GroupProtocol::Gather: {
      // Asymmetric contributions, as gatherv allows.
      std::vector<std::uint64_t> per(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        per[static_cast<std::size_t>(r)] =
            bytes + 8 * static_cast<std::uint64_t>(r);
      }
      return script_gather(p, 0, per);
    }
    case GroupProtocol::Reduce:
      return script_reduce(p, 0, bytes);
    case GroupProtocol::Allreduce:
      return script_allreduce(p, bytes);
    case GroupProtocol::Allgather:
      return script_allgather(p, bytes);
    case GroupProtocol::Barrier:
      return script_group_barrier(p);
    case GroupProtocol::Tsqr: {
      // Ragged panels of 2..5 rows at k = 3, so some R factors are
      // shorter than k.
      std::vector<std::int64_t> rows(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        rows[static_cast<std::size_t>(r)] = 2 + r % 4;
      }
      return script_tsqr_direct(rows, 3);
    }
    case GroupProtocol::Apmos:
      return script_apmos(p, bytes, bytes, 32);
  }
  PARSVD_REQUIRE(false, "group_protocol_schedule: unknown protocol");
  return make_schedule("?", p);
}

}  // namespace

Schedule script_partition(int world_p, std::span<const GroupSpec> groups,
                          std::span<const GroupProtocol> protocols,
                          std::uint64_t bytes) {
  PARSVD_REQUIRE(groups.size() == protocols.size(),
                 "script_partition: one protocol per group");
  std::string name = "partition(P=" + std::to_string(world_p);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    name += ", g" + std::to_string(groups[i].id) + "[" +
            std::to_string(groups[i].members.size()) + "]=" +
            to_string(protocols[i]);
  }
  name += ", " + std::to_string(bytes) + " B)";
  Schedule world = make_schedule(std::move(name), world_p);
  std::vector<bool> claimed(static_cast<std::size_t>(world_p), false);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const GroupSpec& g = groups[i];
    for (const int m : g.members) {
      PARSVD_REQUIRE(m >= 0 && m < world_p &&
                         !claimed[static_cast<std::size_t>(m)],
                     "script_partition: groups must be disjoint world ranks");
      claimed[static_cast<std::size_t>(m)] = true;
    }
    const Schedule local = group_protocol_schedule(
        protocols[i], static_cast<int>(g.members.size()), bytes);
    embed_group_schedule(world, local, g);
  }
  return world;
}

std::map<int, GroupTotals> group_send_totals(const Schedule& s) {
  std::map<int, GroupTotals> out;
  for (const CommScript& script : s.ranks) {
    for (const CommEvent& e : script.events()) {
      if (e.kind != CommEvent::Kind::Send) continue;
      if (!tags::is_group_scoped(e.tag)) continue;
      GroupTotals& t = out[tags::scoped_group(e.tag)];
      t.messages += 1;
      t.bytes += e.bytes;
    }
  }
  return out;
}

}  // namespace parsvd::verify
