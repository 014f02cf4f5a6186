#include "verify/schedules.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "pmpi/tags.hpp"
#include "support/error.hpp"
#include "verify/fault_schedules.hpp"

namespace parsvd::verify {

namespace tags = pmpi::tags;

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
  // Ragged layouts, so the min(rows, k) extents are exercised.
  std::vector<std::int64_t> rows(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    rows[static_cast<std::size_t>(r)] = 2 + r % 4;
  }
  switch (proto) {
    case GroupProtocol::Bcast:
      return script_bcast(p, 0, bytes).schedule;
    case GroupProtocol::Gather: {
      // Asymmetric contributions, as gatherv allows.
      std::vector<std::uint64_t> per(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        per[static_cast<std::size_t>(r)] =
            bytes + 8 * static_cast<std::uint64_t>(r);
      }
      return script_gather(p, 0, per).schedule;
    }
    case GroupProtocol::Reduce:
      return script_reduce(p, 0, bytes).schedule;
    case GroupProtocol::Allreduce:
      return script_allreduce(p, bytes).schedule;
    case GroupProtocol::Allgather:
      return script_allgather(p, bytes).schedule;
    case GroupProtocol::Barrier:
      return script_group_barrier(p);
    case GroupProtocol::Tsqr:
      return script_tsqr_direct(rows, 3, 2).schedule;
    case GroupProtocol::Apmos:
      return script_apmos(rows, 6, 3, 2, /*fault_tolerant=*/false).schedule;
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
